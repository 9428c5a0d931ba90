import json
import os
import re
import sys
from fractions import Fraction

import pytest

from homtwist import cli, finalg, homcore
from homtwist.finalg import (
    GroupBialgebra,
    StructAlgebra,
    automorphism_action,
    build_example31,
    inner_automorphism,
    load_scenario,
    m2_algebra,
    m2_example,
    operator,
)
from homtwist.scalars import QLaurent

import dense_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import finalg_gen  # noqa: E402

ZERO = QLaurent.zero()
ONE = QLaurent.one()


def sparse(dense):
    """The sparse coordinate map of a dense coefficient sequence."""
    return {i: c for i, c in enumerate(dense) if c}


def basis(i):
    """The basis vector e_i as a coordinate map."""
    return {i: ONE}


def product(algebra, v, w):
    """v w through the algebra's product table."""
    flat = homcore.bilinear(algebra.carrier.mul, homcore.flatten(v), homcore.flatten(w))
    return homcore.unflatten(flat.items())


def apply(op, v):
    """op(v) through the operator's table."""
    return homcore.unflatten(homcore.linear(op, homcore.flatten(v)).items())


def matrix(op, n):
    """The dense matrix of op's table: column j is the image of e_j."""
    columns = [apply(op, basis(j)) for j in range(n)]
    return [[columns[j].get(k, ZERO) for j in range(n)] for k in range(n)]


class TestStructAlgebra:
    def test_m2_is_associative_and_unital(self):
        algebra = m2_algebra()
        e12, e21 = basis(1), basis(2)
        assert product(algebra, e12, e21) == basis(0)
        assert product(algebra, e21, e12) == basis(3)
        assert product(algebra, e12, e12) == {}

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
        op = operator([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        return homcore.yau_twist_algebra(m2_algebra().carrier, op)

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
        assert algebra.render({0: ONE * -1, 1: ONE}) == "-1*e11 + e12"
        assert algebra.render({}) == "0"


class TestLinOp:
    """Linear operators, each the memo table id -> terms that operator parses."""

    def test_matches_dense_row_sums(self):
        q = QLaurent.q_power(1)
        rows = [
            [0, 1, Fraction(1, 2), 0],
            [q, 0, -3, q + ONE],
            [0, 0, 0, 0],
            [Fraction(-2, 3), q * q, 0, 5],
        ]
        op = operator(rows)
        vectors = [
            (QLaurent.of(2), ZERO, q + ONE, QLaurent.of(Fraction(1, 3))),
            (ZERO, ZERO, ZERO, ZERO),
            (ONE, q, ZERO, q * -1),
        ]
        for v in vectors:
            dense = [sum((row[i] * v[i] for i in range(4)), ZERO) for row in rows]
            assert apply(op, sparse(v)) == sparse(dense)

    def test_singular_endomorphism_is_not_an_automorphism(self):
        # without a unit, the zero map is an algebra endomorphism of k*a, but
        # no composite of it with a group element is the identity
        algebra = StructAlgebra(("a",), {(0, 0, 0): 1})
        zero_map = operator([[0]])
        assert homcore.check_multiplicativity(algebra.carrier._replace(alpha=zero_map)).passed
        with pytest.raises(ValueError, match="^operator 1 is not an algebra automorphism$"):
            GroupBialgebra(algebra, [homcore.basis_terms, zero_map])

    def test_an_automorphism_needs_products_and_an_inverse(self):
        algebra = m2_algebra()
        # keeps the unit, but sends e12 e21 = e11 to e11 and e12 to -2*e12
        scale = operator([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        # multiplicative, but sends the unit to 0: its row lacks the identity
        zero = operator([[0] * 4 for _ in range(4)])
        conjugation = m2_example()[1].operators[1]
        for op in (scale, zero):
            with pytest.raises(ValueError, match="^operator 1 is not an algebra automorphism$"):
                GroupBialgebra(algebra, [homcore.basis_terms, op])
        assert not homcore.check_multiplicativity(algebra.carrier._replace(alpha=scale)).passed
        assert homcore.check_multiplicativity(algebra.carrier._replace(alpha=zero)).passed
        assert GroupBialgebra(algebra, [homcore.basis_terms, conjugation]).table[1, 1] == 0

    def test_compose_and_identity(self):
        # the composite of the tables against the dense model's matrix product
        q = QLaurent.q_power(1)
        swap = operator([[0, 1], [1, 0]])
        scale = operator([[2, 0], [0, q]])
        assert matrix(homcore.basis_terms, 2) == matrix(operator([[1, 0], [0, 1]]), 2)
        cases = [(swap, swap, [[1, 0], [0, 1]]), (scale, swap, [[0, 2], [q, 0]])]
        for op1, op2, expected in cases:
            composite = homcore.composite(op1, op2)
            model = dense_oracle.compose(matrix(op1, 2), matrix(op2, 2))
            assert model == matrix(operator(expected), 2)
            for j, k in enumerate(homcore.key_ids(range(2))):
                assert homcore.unflatten(composite(k)) == sparse([row[j] for row in model])


class TestInnerAutomorphism:
    def test_unit_gives_identity(self):
        algebra = m2_algebra()
        op = inner_automorphism(algebra, algebra.unit)
        for k in homcore.key_ids(range(4)):
            assert op(k) == homcore.basis_terms(k)

    def test_diag_2_3_scales_off_diagonal(self):
        algebra, _, a = m2_example()
        op = inner_automorphism(algebra, a)
        assert apply(op, basis(1)) == {1: QLaurent.of(Fraction(2, 3))}
        assert apply(op, basis(2)) == {2: QLaurent.of(Fraction(3, 2))}

    def test_inverse_conjugation_composes_to_identity(self):
        algebra, _, a = m2_example()
        a_inv = algebra.inverse(a)
        op = inner_automorphism(algebra, a)
        op_inv = inner_automorphism(algebra, a_inv)
        composite = homcore.composite(op, op_inv)
        for k in homcore.key_ids(range(4)):
            assert composite(k) == homcore.basis_terms(k)

    def test_unipotent_element_runs_the_row_elimination(self):
        # a = 1 + e12 = e11 + e12 + e22 is neither diagonal nor a signed
        # permutation, so solving a x = 1 eliminates a second row at a pivot
        algebra, a = m2_algebra(), sparse([ONE, ONE, ZERO, ONE])
        expected = sparse(dense_oracle.m2().inverse([ONE, ONE, ZERO, ONE]))
        assert algebra.inverse(a) == expected == sparse([ONE, ONE * -1, ZERO, ONE])
        i_a = inner_automorphism(algebra, a)
        assert homcore.check_multiplicativity(algebra.carrier._replace(alpha=i_a)).passed

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError, match="invertible"):
            m2_algebra().inverse(basis(1))


class TestGroupBialgebra:
    def test_m2_group_closure(self):
        _, G, _ = m2_example()
        assert len(G.operators) == 2
        assert G.table[(1, 1)] == 0

    def test_rejects_non_closed_set(self):
        algebra = m2_algebra()
        conj = operator(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        with pytest.raises(ValueError, match="not closed"):
            GroupBialgebra(algebra, [conj])

    def test_rejects_non_automorphism(self):
        algebra = m2_algebra()
        # transposition e12 <-> e21 is an anti-automorphism, not an automorphism
        swap = operator([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="automorphism"):
            GroupBialgebra(algebra, [homcore.basis_terms, swap])

    def test_a_finite_group_may_have_q_entries(self):
        # conjugation by P = [[0, q], [1, 0]] has order 2, since P^2 = q*1:
        # e11 <-> e22, e12 -> q^-1 e21, e21 -> q e12.  Its row of the table
        # holds the identity, and no q-dependent matrix is inverted
        q, q_inv = QLaurent.q_power(1), QLaurent.q_power(-1)
        conj = operator([[0, 0, 0, 1], [0, 0, q, 0], [0, q_inv, 0, 0], [1, 0, 0, 0]])
        G = GroupBialgebra(m2_algebra(), [homcore.basis_terms, conj])
        assert G.table == {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
        assert homcore.check_module_hom_algebra(automorphism_action(G)).passed

    def test_rejects_repeated_operator(self):
        algebra = m2_algebra()
        conj = operator([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
        # the dense identity equals basis_terms, the identity table
        dense_identity = operator([[int(i == j) for j in range(4)] for i in range(4)])
        with pytest.raises(ValueError, match="operators 0 and 2 are equal"):
            GroupBialgebra(algebra, [homcore.basis_terms, conj, dense_identity])

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
        # a sum coefficient goes in parentheses: g -> (1 + q) times the other
        sum_alpha = homcore.key_map(lambda i: {1 - i: QLaurent.parse("1 + q")})
        report = homcore.check_multiplicativity(G.carrier()._replace(alpha=sum_alpha))
        first = report.counterexamples[0]
        assert (first.lhs, first.rhs) == ("(1 + q)*g1", "(1 + 2*q + q^2)*g0")

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
        assert cli._swapped(homcore.check_module_hom_algebra(s)).passed

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


# the built-in example and finalg_gen's n = 3 files of seeds 1-3
ORACLE_CASES = ["m2", 1, 2, 3]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=str)
def modelled(request, tmp_path_factory):
    """(algebra, G, a) as finalg loads them, and the dense model of the same data."""
    if request.param == "m2":
        return m2_example(), dense_oracle.m2()
    document = finalg_gen.generate(request.param, 3)
    path = tmp_path_factory.mktemp("oracle") / "scenario.json"
    path.write_text(json.dumps(document))
    return load_scenario(path), dense_oracle.from_document(document)


class TestDenseOracle:
    """finalg's tables against the independent dense model."""

    def test_product(self, modelled):
        (algebra, _, _), model = modelled
        mul = algebra.carrier.mul
        ids = homcore.key_ids(range(model.n))
        for i, ki in enumerate(ids):
            for j, kj in enumerate(ids):
                expected = sparse(model.mul(model.basis(i), model.basis(j)))
                assert homcore.unflatten(mul(ki, kj)) == expected, (i, j)

    def test_inverse(self, modelled):
        (algebra, _, a), model = modelled
        assert a == sparse(model.element)
        assert algebra.inverse(a) == sparse(model.inverse(model.element))

    def test_inner_automorphism(self, modelled):
        (algebra, _, a), model = modelled
        expected = model.conjugation(model.element)
        assert matrix(inner_automorphism(algebra, a), model.n) == expected

    def test_group_composition(self, modelled):
        (_, G, _), model = modelled
        assert [matrix(op, model.n) for op in G.operators] == model.group
        for i, m1 in enumerate(model.group):
            for j, m2 in enumerate(model.group):
                assert G.table[i, j] == model.group.index(dense_oracle.compose(m1, m2))


class TestOneTablePerStructure:
    """Loading a file and building its record make each table once."""

    def test_load_and_record_read_one_table_each(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(finalg_gen.generate(1, 3)))
        made, read = [], []

        def spy(name, record):
            real = getattr(finalg, name)

            def wrapper(*args):
                out = real(*args)
                record(args, out)
                return out

            monkeypatch.setattr(finalg, name, wrapper)

        spy("key_map", lambda args, table: made.append(table))
        spy("bilinear", lambda args, _: read.append(args[0]))
        for check in ("check_hom_associativity", "check_multiplicativity"):
            spy(check, lambda args, _: read.append(args[0].mul))
        algebra, G, a = load_scenario(path)
        r = finalg.example31_scenario(algebra, G, a)
        mul = algebra.carrier.mul
        # every load check and the module multiply through the one product table
        assert r.module.A.mul is mul
        assert read and all(table is mul for table in read)
        assert mul.cache_info().currsize == algebra.dim**2 == 81
        # one key map each: the product and every operator
        tables = [mul, *G.operators]
        assert len(made) == len(tables) == 5
        assert {id(table) for table in made} == {id(table) for table in tables}
        entries = sum(table.cache_info().currsize for table in made)
        assert entries == 81 + len(G.operators) * algebra.dim == 117
        # the action reads the operators' own tables
        for g, op in zip(r.module.H.basis, G.operators):
            for k in algebra.carrier.basis:
                assert r.module.rho(g, k) is op(k)
        # i_a is filled by the sweeps, each of its entries once
        assert r.beta_A.cache_info().currsize == 0
        d = homcore.deform_scenario(r)
        assert homcore.check_module_hom_algebra(d).passed
        assert homcore.check_hom_jacobi(r.lie(d)).passed
        info = r.beta_A.cache_info()
        assert info.misses == info.currsize == algebra.dim == 9


class TestParseMemo:
    """load_scenario parses each distinct coefficient text once per load."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts that QLaurent.parse is called on, in call order."""
        calls, parse = [], QLaurent.parse

        def counted(cls, text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(QLaurent, "parse", classmethod(counted))
        return calls

    @staticmethod
    def texts(document):
        return [
            *(c for *_, c in document["constants"]),
            *document["unit"],
            *(c for matrix in document["group"] for row in matrix for c in row),
            *document["element"],
        ]

    @pytest.fixture
    def seed1(self, tmp_path):
        document = finalg_gen.generate(1, 3)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        return path, document

    def test_each_distinct_text_is_parsed_once(self, seed1, parsed):
        path, document = seed1
        texts = self.texts(document)
        assert (len(texts), len(set(texts)), texts.count("0")) == (369, 10, 300)
        load_scenario(path)
        assert len(parsed) == 10
        assert set(parsed) == set(texts)

    def test_a_second_load_parses_afresh(self, seed1, parsed):
        path, _ = seed1
        load_scenario(path)
        first = list(parsed)
        load_scenario(path)
        assert len(parsed) == 20
        assert parsed[10:] == first

    def test_the_load_equals_a_load_without_the_memo(self, seed1, parsed, monkeypatch):
        path, _ = seed1
        A1, G1, a1 = load_scenario(path)
        # finalg's cache wraps only the parse during a load
        monkeypatch.setattr(finalg, "cache", lambda f: f)
        A2, G2, a2 = load_scenario(path)
        assert len(parsed) == 10 + 369
        ids = A1.carrier.basis
        assert (A1.labels, ids, A1.unit, a1) == (A2.labels, A2.carrier.basis, A2.unit, a2)
        assert all(A1.carrier.mul(i, j) == A2.carrier.mul(i, j) for i in ids for j in ids)
        assert G1.table == G2.table
        assert [[op(k) for k in ids] for op in G1.operators] == [
            [op(k) for k in ids] for op in G2.operators
        ]

    @pytest.mark.parametrize(
        "place",
        [("constants", 5, 3), ("unit", 1), ("group", 2, 1, 1), ("element", 4)],
        ids=lambda place: place[0],
    )
    def test_a_refused_text_fails_wherever_it_appears(self, tmp_path, parsed, place):
        document = finalg_gen.generate(1, 3)
        *path, last = place
        target = document
        for step in path:
            target = target[step]
        target[last] = "q^"
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(document))
        # a refused text is not stored, so a second load refuses it again
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape("cannot parse scalar term 'q^'")):
                load_scenario(scenario)
        assert parsed.count("q^") == 2


class TestScenarioFile:
    def test_roundtrip_through_json(self, tmp_path):
        # m2_example in the file format: e_ij e_jl = e_il
        document = {
            "labels": ["e11", "e12", "e21", "e22"],
            "constants": [
                [0, 0, 0, "1"], [0, 1, 1, "1"], [1, 2, 0, "1"], [1, 3, 1, "1"],
                [2, 0, 2, "1"], [2, 1, 3, "1"], [3, 2, 2, "1"], [3, 3, 3, "1"],
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
        # the file's product table is m2_algebra's
        mul, ids = m2_algebra().carrier.mul, algebra.carrier.basis
        assert all(dict(algebra.carrier.mul(i, j)) == dict(mul(i, j)) for i in ids for j in ids)
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
